//! The [`Executor`]: the one entry point for running a
//! [`GraphModule`].
//!
//! ```text
//! Executor::new(&gm)
//!     .with_threads(8)       // inter-op parallelism (default: 1)
//!     .with_profiling(true)  // collect a RunProfile
//!     .run(&inputs)?
//! ```
//!
//! Execution goes through a cached [`ExecPlan`]: the graph is compiled
//! into wavefront levels with pre-resolved arguments once per
//! [`Graph::version`](crate::Graph::version), then replayed. With more
//! than one thread, independent steps run concurrently on a
//! coordinator/worker pool ([`fx_tensor::threading::with_workers`]):
//! the coordinator owns the value environment, materializes each ready
//! step's arguments, and hands the step to a worker; completions
//! release dead buffers (last-use liveness) and unlock successors.
//! Because the IR is purely functional, any dependency-respecting order
//! computes bit-identical results to the sequential walk.
//!
//! The executor falls back to the strict sequential order whenever
//! semantics demand it: an [`InterpHook`] is attached (hooks observe
//! nodes *in order*), a trace session is active on this thread, or the
//! inputs contain proxies (re-tracing records through the dispatcher in
//! definition order).

use crate::error::{Error, Result};
use crate::exec_plan::{ExecPlan, PlanArg, Step};
use crate::graph_module::GraphModule;
use crate::module::{join_path, module_ptr, ModuleExt};
use crate::node::{Node, Opcode};
use crate::trace;
use crate::value::Value;
use crate::dispatch;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Observe node-by-node execution — the pattern behind `shape_prop`
/// and the quantization observers (paper §6.3). Hooked runs visit nodes
/// in strict execution order.
pub trait InterpHook {
    /// Called after each node executes with the node and its produced
    /// value. Returning an error aborts the run.
    fn on_node(&mut self, node: &Node, value: &Value) -> Result<()>;
}

/// Run a node kernel with unwind containment: a panicking kernel
/// becomes an [`Error::Panic`] carrying the panic message instead of
/// unwinding through the executor (which, on the parallel path, would
/// poison the job-queue mutex and take down every worker).
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
    /// Wavefront level the node was scheduled at.
    pub level: usize,
    /// Kernel wall time in seconds (excludes queueing).
    pub seconds: f64,
}

/// Aggregate statistics for one wavefront level.
#[derive(Debug, Clone)]
pub struct WavefrontStat {
    /// Number of steps in the level — the available parallelism.
    pub width: usize,
    /// Sum of the level's node times (busy time, not wall time).
    pub busy_seconds: f64,
}

/// Observability record for one `Executor::run`, consumable by the
/// estimator (measured vs. predicted cost) and the backend engine.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// End-to-end wall time of the run in seconds.
    pub total_seconds: f64,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Whether the parallel path actually ran (vs. sequential fallback).
    pub parallel: bool,
    /// Whether the plan was served from the `GraphModule` cache (no
    /// re-levelization).
    pub plan_cache_hit: bool,
    /// Cumulative plan compilations on this `GraphModule`.
    pub plan_compiles: u64,
    /// Cumulative plan cache hits on this `GraphModule`.
    pub plan_hits: u64,
    /// Per-node wall times, in plan order.
    pub node_times: Vec<NodeTime>,
    /// Per-wavefront width and busy time, in level order.
    pub wavefronts: Vec<WavefrontStat>,
    /// Peak bytes of live intermediate values observed during the run.
    pub peak_live_bytes: usize,
    /// High-water mark of steps simultaneously in flight (parallel path;
    /// 1 on the sequential path).
    pub max_concurrency: usize,
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

    /// Sum of all per-node kernel times (the sequential lower bound).
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
    profiling: bool,
    memory_planning: bool,
    profile: Option<RunProfile>,
}

impl<'m> Executor<'m> {
    /// An executor over `gm`'s current graph and state. Defaults come
    /// from [`ExecConfig::from_env`](crate::exec::ExecConfig::from_env)
    /// — sequential unless `FX_THREADS` overrides, memory planning per
    /// `FX_MEMPLAN` (on unless the env var is `0`) — with no hook and
    /// profiling off.
    pub fn new(gm: &'m GraphModule) -> Executor<'m> {
        Self::with_config(gm, crate::exec::ExecConfig::from_env())
    }

    /// An executor with an explicit [`ExecConfig`](crate::exec::ExecConfig)
    /// (the unified knob set shared with `fx_serve`). The config's
    /// `fusion` flag is meaningless for the plain executor and ignored.
    pub fn with_config(gm: &'m GraphModule, cfg: crate::exec::ExecConfig) -> Executor<'m> {
        Executor {
            gm,
            hook: None,
            threads: cfg.threads,
            profiling: false,
            memory_planning: cfg.memory_planning,
            profile: None,
        }
    }

    /// Invoke `hook` after every node, in execution order. Forces the
    /// sequential path (hooks observe a deterministic order).
    pub fn with_hook(mut self, hook: &'m mut dyn InterpHook) -> Executor<'m> {
        self.hook = Some(hook);
        self
    }

    /// Use up to `n` inter-op worker threads; `0` means the machine's
    /// configured parallelism ([`fx_tensor::threading::num_threads`]).
    pub fn with_threads(mut self, n: usize) -> Executor<'m> {
        self.threads = n;
        self
    }

    /// Collect a [`RunProfile`] (per-node times, wavefront stats, peak
    /// live memory) retrievable via [`Executor::profile`].
    pub fn with_profiling(mut self, on: bool) -> Executor<'m> {
        self.profiling = on;
        self
    }

    /// Enable or disable memory planning (buffer-pool recycling of dead
    /// intermediates plus in-place unary rewrites) for this executor,
    /// overriding the `FX_MEMPLAN` process default. Planned runs are
    /// bit-identical to unplanned ones — the same kernels touch the same
    /// values in the same order; only allocation traffic changes.
    pub fn with_memory_planning(mut self, on: bool) -> Executor<'m> {
        self.memory_planning = on;
        self
    }

    /// The profile of the most recent [`Executor::run`], if profiling
    /// was enabled.
    pub fn profile(&self) -> Option<&RunProfile> {
        self.profile.as_ref()
    }

    /// Run the graph on `inputs` (one per placeholder).
    pub fn run(&mut self, inputs: &[Value]) -> Result<Value> {
        let t0 = Instant::now();
        let (plan, cache_hit, compiles, hits) = self.gm.exec_plan()?;
        let threads = if self.threads == 0 {
            fx_tensor::threading::num_threads()
        } else {
            self.threads
        };

        let mut profile = RunProfile {
            threads,
            plan_cache_hit: cache_hit,
            plan_compiles: compiles,
            plan_hits: hits,
            max_concurrency: 1,
            ..RunProfile::default()
        };

        let tracing = trace::is_tracing() || inputs.iter().any(Value::contains_proxy);
        let parallel = threads > 1 && plan.max_width() > 1 && self.hook.is_none() && !tracing;
        // Memory planning is value-level bookkeeping: it needs concrete
        // tensors, so a (re-)trace falls back to plain allocation.
        let planning = self.memory_planning && !tracing;
        profile.memory_planning = planning;

        let out = if parallel {
            profile.parallel = true;
            self.run_parallel(&plan, inputs, threads, planning, &mut profile)
        } else {
            self.run_sequential(&plan, inputs, planning, &mut profile)
        }?;

        profile.total_seconds = t0.elapsed().as_secs_f64();
        if self.profiling {
            if !profile.node_times.is_empty() {
                profile.wavefronts = wavefront_stats(&plan, &profile.node_times);
            }
            self.profile = Some(profile);
        }
        Ok(out)
    }

    /// Run and return the profile alongside the output, enabling
    /// profiling for this call.
    pub fn run_profiled(&mut self, inputs: &[Value]) -> Result<(Value, RunProfile)> {
        self.profiling = true;
        let out = self.run(inputs)?;
        let profile = self.profile.clone().expect("profiling was enabled");
        Ok((out, profile))
    }

    // ----- sequential path --------------------------------------------------

    fn run_sequential(
        &mut self,
        plan: &ExecPlan,
        inputs: &[Value],
        planning: bool,
        profile: &mut RunProfile,
    ) -> Result<Value> {
        let mut env: Vec<Option<Value>> = vec![None; plan.len()];
        let mut live_bytes = 0usize;
        let graph = self.gm.graph();
        // While the guard is live, dead intermediates recycle into the
        // buffer pool and kernels allocate from it.
        let _pool = planning.then(fx_tensor::pool::activate);

        for (idx, step) in plan.steps.iter().enumerate() {
            let t0 = self.profiling.then(Instant::now);
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
                if self.profiling {
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
                    level: step.level,
                    seconds: t0.elapsed().as_secs_f64(),
                });
            }
            if let Some(hook) = self.hook.as_deref_mut() {
                hook.on_node(graph.node(step.node), &value)?;
            }
            if step.op == Opcode::Output {
                return Ok(value);
            }
            if self.profiling {
                live_bytes += value_bytes(&value);
                profile.peak_live_bytes = profile.peak_live_bytes.max(live_bytes);
            }
            env[idx] = Some(value);
            // Early release: drop buffers whose last reader just ran,
            // recycling them into the pool on planned runs.
            for &slot in &plan.release_after[idx] {
                if slot != idx {
                    if let Some(dead) = env[slot].take() {
                        if self.profiling {
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

    // ----- parallel path ----------------------------------------------------

    fn run_parallel(
        &mut self,
        plan: &Arc<ExecPlan>,
        inputs: &[Value],
        threads: usize,
        planning: bool,
        profile: &mut RunProfile,
    ) -> Result<Value> {
        struct Job {
            idx: usize,
            args: Vec<Value>,
            kwargs: Vec<(String, Value)>,
        }

        let gm = self.gm;
        let profiling = self.profiling;
        // Pool activation is process-wide, so worker allocations are
        // pooled too; the coordinator recycles slots as refcounts drain.
        let _pool = planning.then(fx_tensor::pool::activate);
        let workers = threads.min(plan.max_width()).max(1);
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (res_tx, res_rx) = mpsc::channel::<(usize, Result<Value>, f64)>();
        let job_rx = Mutex::new(job_rx);

        fx_tensor::threading::with_workers(
            workers,
            |_worker| loop {
                // Hold the lock only while receiving, not while executing.
                // A poisoned mutex just means another worker unwound while
                // holding it; the receiver itself is still intact.
                let job = {
                    job_rx
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .recv()
                };
                let Ok(Job { idx, args, kwargs }) = job else {
                    break; // queue closed: run is over
                };
                let t0 = Instant::now();
                let step = &plan.steps[idx];
                let res = run_caught(move || execute_concrete(gm, step, args, kwargs));
                let dt = t0.elapsed().as_secs_f64();
                if res_tx.send((idx, res, dt)).is_err() {
                    break; // coordinator bailed out
                }
            },
            move || {
                let n = plan.len();
                let mut env: Vec<Option<Value>> = vec![None; n];
                let mut remaining: Vec<usize> =
                    plan.steps.iter().map(|s| s.deps.len()).collect();
                let mut readers_left: Vec<usize> =
                    plan.users.iter().map(Vec::len).collect();
                let mut node_times: Vec<Option<NodeTime>> = vec![None; n];
                let mut ready: VecDeque<usize> = plan
                    .steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.deps.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                let mut live_bytes = 0usize;
                let mut in_flight = 0usize;
                let mut completed = 0usize;
                let mut output: Option<Value> = None;

                // Completion bookkeeping: store the value, release slots
                // whose readers are all done, enqueue unlocked successors.
                let mut complete = |idx: usize,
                                    value: Value,
                                    env: &mut Vec<Option<Value>>,
                                    ready: &mut VecDeque<usize>,
                                    live_bytes: &mut usize,
                                    profile: &mut RunProfile,
                                    output: &mut Option<Value>| {
                    if plan.steps[idx].op == Opcode::Output {
                        *output = Some(value);
                    } else {
                        if profiling {
                            *live_bytes += value_bytes(&value);
                            profile.peak_live_bytes =
                                profile.peak_live_bytes.max(*live_bytes);
                        }
                        env[idx] = Some(value);
                    }
                    for &d in &plan.steps[idx].deps {
                        readers_left[d] -= 1;
                        if readers_left[d] == 0 {
                            if let Some(dead) = env[d].take() {
                                if profiling {
                                    *live_bytes -= value_bytes(&dead);
                                }
                                if planning {
                                    reclaim_value(dead);
                                }
                            }
                        }
                    }
                    for &u in &plan.users[idx] {
                        remaining[u] -= 1;
                        if remaining[u] == 0 {
                            ready.push_back(u);
                        }
                    }
                };

                loop {
                    // Dispatch everything currently ready.
                    while let Some(idx) = ready.pop_front() {
                        let step = &plan.steps[idx];
                        match step.op {
                            // Trivial steps run inline on the coordinator;
                            // kernels go to the pool.
                            Opcode::Placeholder => {
                                let t0 = profiling.then(Instant::now);
                                let v = inputs
                                    .get(step.input_index)
                                    .cloned()
                                    .ok_or_else(|| Error::Interp {
                                        node: step.name.clone(),
                                        source: Box::new(Error::Module(format!(
                                            "missing input for placeholder `{}` (got {} inputs)",
                                            step.target,
                                            inputs.len()
                                        ))),
                                    })?;
                                if let Some(t0) = t0 {
                                    node_times[idx] = Some(inline_time(step, t0));
                                }
                                completed += 1;
                                complete(
                                    idx, v, &mut env, &mut ready, &mut live_bytes,
                                    profile, &mut output,
                                );
                            }
                            Opcode::Output => {
                                let t0 = profiling.then(Instant::now);
                                let (args, _) = materialize(step, &env)
                                    .map_err(|e| Error::Interp {
                                        node: step.name.clone(),
                                        source: Box::new(e),
                                    })?;
                                let v = args.into_iter().next().unwrap_or(Value::None);
                                if let Some(t0) = t0 {
                                    node_times[idx] = Some(inline_time(step, t0));
                                }
                                completed += 1;
                                complete(
                                    idx, v, &mut env, &mut ready, &mut live_bytes,
                                    profile, &mut output,
                                );
                            }
                            _ => {
                                let (args, kwargs) = materialize(step, &env)
                                    .map_err(|e| Error::Interp {
                                        node: step.name.clone(),
                                        source: Box::new(e),
                                    })?;
                                job_tx.send(Job { idx, args, kwargs }).map_err(|_| {
                                    Error::Graph(
                                        "worker pool shut down while steps remain".to_string(),
                                    )
                                })?;
                                in_flight += 1;
                                profile.max_concurrency =
                                    profile.max_concurrency.max(in_flight);
                            }
                        }
                    }
                    if completed == n {
                        break;
                    }
                    debug_assert!(in_flight > 0, "deadlock: nothing ready, nothing running");
                    let (idx, res, dt) = res_rx.recv().map_err(|_| {
                        Error::Graph(
                            "worker pool shut down while jobs were in flight".to_string(),
                        )
                    })?;
                    in_flight -= 1;
                    let value = res.map_err(|e| Error::Interp {
                        node: plan.steps[idx].name.clone(),
                        source: Box::new(e),
                    })?;
                    if profiling {
                        let step = &plan.steps[idx];
                        node_times[idx] = Some(NodeTime {
                            name: step.name.clone(),
                            target: step.target.clone(),
                            op: step.op,
                            level: step.level,
                            seconds: dt,
                        });
                    }
                    completed += 1;
                    complete(
                        idx, value, &mut env, &mut ready, &mut live_bytes, profile,
                        &mut output,
                    );
                }
                if profiling {
                    profile.node_times = node_times.into_iter().flatten().collect();
                }
                output.ok_or_else(|| {
                    Error::Graph(
                        "graph has no output node; call Graph::output before running"
                            .to_string(),
                    )
                })
                // `job_tx` drops here, closing the queue; `with_workers`
                // then joins the pool before returning.
            },
        )
    }
}

/// A `NodeTime` for a step executed inline on the coordinator.
fn inline_time(step: &Step, t0: Instant) -> NodeTime {
    NodeTime {
        name: step.name.clone(),
        target: step.target.clone(),
        op: step.op,
        level: step.level,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Execute a step on concrete values — the worker-side path. Callers
/// guarantee no trace session is involved (the executor falls back to
/// sequential when tracing), so placeholders and outputs never reach
/// here.
fn execute_concrete(
    gm: &GraphModule,
    step: &Step,
    args: Vec<Value>,
    kwargs: Vec<(String, Value)>,
) -> Result<Value> {
    match step.op {
        Opcode::CallFunction => dispatch::call_function(&step.target, &args, &kwargs),
        Opcode::CallMethod => dispatch::call_method(&step.target, &args, &kwargs),
        Opcode::CallModule => {
            let m = gm.get_module(&step.target).ok_or_else(|| {
                Error::Module(format!("no submodule named `{}`", step.target))
            })?;
            m.call(&args)
        }
        Opcode::GetAttr => gm
            .get_attr_tensor(&step.target)
            .cloned()
            .map(Value::Tensor)
            .ok_or_else(|| Error::Module(format!("no attribute tensor named `{}`", step.target))),
        Opcode::Placeholder | Opcode::Output => unreachable!("handled by the coordinator"),
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

fn wavefront_stats(plan: &ExecPlan, node_times: &[NodeTime]) -> Vec<WavefrontStat> {
    let mut stats: Vec<WavefrontStat> = plan
        .levels
        .iter()
        .map(|l| WavefrontStat {
            width: l.len(),
            busy_seconds: 0.0,
        })
        .collect();
    for t in node_times {
        if let Some(s) = stats.get_mut(t.level) {
            s.busy_seconds += t.seconds;
        }
    }
    stats
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
        let gm = diamond_gm();
        let x = input(64);
        let seq = Executor::new(&gm).run(std::slice::from_ref(&x)).unwrap();
        let par = Executor::new(&gm)
            .with_threads(4)
            .run(std::slice::from_ref(&x))
            .unwrap();
        assert_eq!(
            seq.as_tensor().unwrap().as_f32().unwrap(),
            par.as_tensor().unwrap().as_f32().unwrap()
        );
    }

    #[test]
    fn profile_reports_cache_and_wavefronts() {
        let gm = diamond_gm();
        let x = input(8);
        let mut ex = Executor::new(&gm).with_threads(2).with_profiling(true);
        ex.run(std::slice::from_ref(&x)).unwrap();
        let first = ex.profile().unwrap().clone();
        assert!(!first.plan_cache_hit, "first run must compile the plan");
        assert_eq!(first.plan_compiles, 1);
        assert!(first.parallel);
        assert_eq!(first.node_times.len(), 5);
        assert!(first.wavefronts.iter().any(|w| w.width == 2));

        ex.run(std::slice::from_ref(&x)).unwrap();
        let second = ex.profile().unwrap().clone();
        assert!(second.plan_cache_hit, "unmutated graph must hit the cache");
        assert_eq!(second.plan_compiles, 1, "no re-levelization on a hit");
        assert!(second.plan_hits >= 1);
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
    fn hook_forces_sequential_and_sees_all_nodes() {
        struct Count(usize);
        impl InterpHook for Count {
            fn on_node(&mut self, _n: &Node, _v: &Value) -> Result<()> {
                self.0 += 1;
                Ok(())
            }
        }
        let gm = diamond_gm();
        let mut hook = Count(0);
        let mut ex = Executor::new(&gm)
            .with_threads(8)
            .with_profiling(true)
            .with_hook(&mut hook);
        ex.run(&[input(8)]).unwrap();
        let parallel = ex.profile().unwrap().parallel;
        assert!(!parallel, "hooked runs must stay sequential");
        assert_eq!(hook.0, 5);
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
        use crate::dispatch::{register_function, Inputs};
        use crate::graph::Graph;

        fn bomb(_i: &Inputs<'_>) -> Result<Value> {
            panic!("deliberate test panic");
        }
        register_function("test::bomb", bomb);

        // Two parallel branches so the parallel path actually engages
        // (max_width > 1): one panics, one is a real kernel.
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
        // The pool shut down cleanly: the same module still runs a
        // healthy graph afterwards, repeatedly, on the parallel path.
        let healthy = diamond_gm();
        for _ in 0..3 {
            Executor::new(&healthy)
                .with_threads(4)
                .run(std::slice::from_ref(&x))
                .unwrap();
        }
    }
}
