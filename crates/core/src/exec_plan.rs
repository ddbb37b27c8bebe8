//! [`ExecPlan`]: a [`Graph`] compiled once into a form the
//! [`Executor`](crate::Executor) can replay many times.
//!
//! A plain interpreter re-walks the IR node by node on every call: cloning
//! nodes, re-resolving `Arg`s against a sparse arena-indexed environment,
//! re-deciding everything it already decided last run. A plan does that
//! work once per graph *version*:
//!
//! * every node becomes a [`Step`] with its arguments pre-resolved to
//!   either an immediate [`Value`] or a dense result-slot index;
//! * a **last-use liveness** table records, for each step, which result
//!   slots die after it, letting the executor drop intermediate buffers
//!   as early as the graph order allows;
//! * each step records its **dependency depth** (`1 + max(depth of
//!   deps)`), and [`ExecPlan::levels`] groups steps by it. This is an
//!   analysis of the graph's shape (how long its longest chain is, how
//!   wide it gets), not a schedule: the executor runs steps in graph
//!   order.
//!
//! Plans are immutable and cheap to share (`Arc`); the
//! [`GraphModule`](crate::GraphModule) caches one keyed by
//! [`Graph::version`](crate::Graph::version).

use crate::arg::Arg;
use crate::error::{Error, Result};
use crate::graph::Graph;
use crate::node::{NodeId, Opcode};
use crate::value::Value;
use std::collections::HashMap;

/// A pre-resolved step argument: immediates are converted ahead of time,
/// node references become dense result-slot indices.
#[derive(Debug, Clone)]
pub enum PlanArg {
    /// An immediate constant, already converted from the IR [`Arg`].
    Const(Value),
    /// The result of the step at this index in [`ExecPlan::steps`].
    Slot(usize),
    /// A list whose elements resolve recursively.
    List(Vec<PlanArg>),
    /// A tuple whose elements resolve recursively.
    Tuple(Vec<PlanArg>),
}

/// One node of the graph, compiled for execution.
#[derive(Debug, Clone)]
pub struct Step {
    /// The originating node (for hooks, errors, profiles).
    pub node: NodeId,
    /// Node name, for diagnostics without touching the graph.
    pub name: String,
    /// The node's opcode.
    pub op: Opcode,
    /// The node's target (function/method name, module path, attr path).
    pub target: String,
    /// Pre-resolved positional arguments.
    pub args: Vec<PlanArg>,
    /// Pre-resolved keyword arguments.
    pub kwargs: Vec<(String, PlanArg)>,
    /// For placeholders: which runtime input this step consumes.
    pub input_index: usize,
    /// Dependency depth: `1 + max(level of deps)`, `0` for sources.
    pub level: usize,
    /// Step indices this step reads from (deduplicated).
    pub deps: Vec<usize>,
}

/// A compiled, reusable execution schedule for one graph version.
#[derive(Debug)]
pub struct ExecPlan {
    /// [`Graph::version`] this plan was compiled against.
    pub graph_version: u64,
    /// All steps, in the graph's execution order.
    pub steps: Vec<Step>,
    /// Steps by dependency depth: `levels[l]` lists the step indices at
    /// [`Step::level`] `l`. Steps within one level are mutually
    /// independent; `levels.len()` is the longest chain.
    pub levels: Vec<Vec<usize>>,
    /// Liveness: `release_after[s]` lists the result slots whose last
    /// reader is step `s`, safe to drop once `s` completes.
    pub release_after: Vec<Vec<usize>>,
    /// Index of the `output` step, if the graph is complete.
    pub output_step: Option<usize>,
    /// Number of placeholder inputs the plan expects.
    pub n_inputs: usize,
    /// Steps the executor may run **in place** on their
    /// (sole, dying) input: parameterless unary `call_function`s
    /// (f32 scalar unaries, plus `quantized::relu` on int8) whose
    /// input's last reader is this very step. Independent of shape
    /// metadata — liveness alone proves the rewrite safe.
    pub inplace_unary: Vec<bool>,
    /// Static buffer assignment, present when the graph carries shape
    /// metadata (run `infer_shapes`/`shape_prop` first).
    pub mem: Option<MemPlan>,
}

/// Static memory plan: the compile-time simulation of the buffer pool
/// over the plan's last-use liveness (Relay-style memory planning).
///
/// Each pool-eligible step (a call step with known shape producing a
/// pooled dtype — f32 or int8) is assigned a **buffer id**; two steps
/// sharing an id reuse the same size-bucket allocation at disjoint
/// lifetimes. Buffers are typed: the dtype-aware pool segregates its
/// buckets per element type, so an id is only ever reused by steps of
/// the same dtype. The runtime pool is dynamic (buckets +
/// liveness-driven recycling reproduce this assignment without
/// carrying ids around), so the plan's role is analytical: it proves
/// how many distinct buffers a steady-state run needs and predicts the
/// pool's peak footprint, which the estimator cross-checks against its
/// roofline peak.
#[derive(Debug, Clone)]
pub struct MemPlan {
    /// Planned element count of each step's output; `None` for steps
    /// that are not pool-eligible (placeholders, attribute fetches,
    /// unknown shapes, non-pooled dtypes).
    pub numel: Vec<Option<usize>>,
    /// Planned dtype of each pool-eligible step's output, parallel to
    /// `numel` (`Some` exactly where `numel` is).
    pub dtype: Vec<Option<fx_tensor::DType>>,
    /// Buffer id serving each step's output (same id ⇒ same reused
    /// allocation), parallel to `numel`.
    pub buffer: Vec<Option<usize>>,
    /// Bucketed capacity, in elements, of each buffer id.
    pub buffer_capacity: Vec<usize>,
    /// Element dtype of each buffer id, parallel to `buffer_capacity`;
    /// reuse never crosses dtypes.
    pub buffer_dtype: Vec<fx_tensor::DType>,
    /// Steps whose buffer is a reuse (bucket hit or in-place transfer)
    /// rather than a fresh allocation — the plan's predicted
    /// steady-state pool hits per run.
    pub planned_reuses: usize,
    /// Peak live activation bytes with exact (unbucketed) sizes — the
    /// same liveness walk `fx_passes::estimator::peak_activation_bytes`
    /// performs, so the two agree exactly on a fully-annotated graph.
    pub exact_peak_bytes: u64,
    /// Total bucketed footprint of all planned buffers, in bytes — what
    /// the pool holds once steady state is reached.
    pub pool_peak_bytes: u64,
}

impl ExecPlan {
    /// Compile `graph` into a plan. Errors if an argument references a
    /// node that is erased or defined later in the execution order (the
    /// same invariants [`Graph::lint`](crate::Graph::lint) enforces).
    pub fn compile(graph: &Graph) -> Result<ExecPlan> {
        let order = graph.node_ids();
        let mut slot_of: HashMap<NodeId, usize> = HashMap::with_capacity(order.len());
        let mut steps: Vec<Step> = Vec::with_capacity(order.len());
        let mut n_inputs = 0usize;
        let mut output_step = None;

        for (idx, &id) in order.iter().enumerate() {
            let node = graph.node(id);
            let args = node
                .args()
                .iter()
                .map(|a| compile_arg(a, &slot_of, node.name()))
                .collect::<Result<Vec<_>>>()?;
            let kwargs = node
                .kwargs()
                .iter()
                .map(|(k, a)| Ok((k.clone(), compile_arg(a, &slot_of, node.name())?)))
                .collect::<Result<Vec<_>>>()?;

            let mut deps = Vec::new();
            for a in args.iter().chain(kwargs.iter().map(|(_, a)| a)) {
                collect_slots(a, &mut deps);
            }
            deps.sort_unstable();
            deps.dedup();
            let level = deps
                .iter()
                .map(|&d| steps[d].level + 1)
                .max()
                .unwrap_or(0);

            let input_index = if node.op() == Opcode::Placeholder {
                n_inputs += 1;
                n_inputs - 1
            } else {
                0
            };
            if node.op() == Opcode::Output {
                output_step = Some(idx);
            }
            slot_of.insert(id, idx);
            steps.push(Step {
                node: id,
                name: node.name().to_string(),
                op: node.op(),
                target: node.target().to_string(),
                args,
                kwargs,
                input_index,
                level,
                deps,
            });
        }

        let n_levels = steps.iter().map(|s| s.level + 1).max().unwrap_or(0);
        let mut levels = vec![Vec::new(); n_levels];
        for (idx, step) in steps.iter().enumerate() {
            levels[step.level].push(idx);
        }

        // Last-use liveness: the final reader of each slot releases it.
        // Slots nobody reads (dead values kept for hooks) die at their own
        // step; the output's operand survives as the return value.
        let mut last_use: Vec<usize> = (0..steps.len()).collect();
        for (idx, step) in steps.iter().enumerate() {
            for &d in &step.deps {
                last_use[d] = idx;
            }
        }
        let mut release_after = vec![Vec::new(); steps.len()];
        for (slot, &user) in last_use.iter().enumerate() {
            if Some(slot) != output_step {
                release_after[user].push(slot);
            }
        }

        // In-place candidates: `y = f(x)` where `f` is a parameterless
        // scalar unary (or the int8 `quantized::relu`, a zero-point
        // clamp) and `x`'s last reader is this very step. The
        // executor may then take `x` out of the environment
        // and transform its buffer instead of allocating `y`.
        let inplace_unary: Vec<bool> = steps
            .iter()
            .enumerate()
            .map(|(idx, step)| {
                step.op == Opcode::CallFunction
                    && step.kwargs.is_empty()
                    && step.args.len() == 1
                    && (fx_tensor::ops::unary_scalar(&step.target).is_some()
                        || step.target == "quantized::relu")
                    && matches!(step.args[0], PlanArg::Slot(d)
                        if release_after[idx].contains(&d))
            })
            .collect();

        let mem = MemPlan::compile(graph, &order, &steps, &release_after, &inplace_unary);

        Ok(ExecPlan {
            graph_version: graph.version(),
            steps,
            levels,
            release_after,
            output_step,
            n_inputs,
            inplace_unary,
            mem,
        })
    }

    /// Number of steps (== live nodes at compile time).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether memory planning found any shape metadata to plan with.
    pub fn has_mem_plan(&self) -> bool {
        self.mem.is_some()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl MemPlan {
    /// Simulate the buffer pool over the plan's liveness. Returns `None`
    /// when no step carries shape metadata (nothing to plan).
    fn compile(
        graph: &Graph,
        order: &[NodeId],
        steps: &[Step],
        release_after: &[Vec<usize>],
        inplace_unary: &[bool],
    ) -> Option<MemPlan> {
        use crate::node::Meta;
        use fx_tensor::DType;

        // Exact per-step output size for the roofline walk (any dtype),
        // plus the pool-eligible element count + dtype for buffer
        // assignment. Absent dtype metadata means f32 (the default the
        // tracer produces); the pool serves f32 and int8 buckets.
        let mut exact_bytes = vec![0u64; steps.len()];
        let mut numel: Vec<Option<usize>> = vec![None; steps.len()];
        let mut dtype: Vec<Option<DType>> = vec![None; steps.len()];
        let mut any_shape = false;
        for (idx, &id) in order.iter().enumerate() {
            let node = graph.node(id);
            let Some(shape) = node.shape_meta() else { continue };
            any_shape = true;
            let n: usize = shape.iter().product();
            let dt = match node.meta.get("dtype") {
                Some(Meta::DType(d)) => *d,
                _ => DType::F32,
            };
            exact_bytes[idx] = n as u64 * dt.size_bytes() as u64;
            if matches!(dt, DType::F32 | DType::QI8)
                && n > 0
                && matches!(
                    steps[idx].op,
                    Opcode::CallFunction | Opcode::CallMethod | Opcode::CallModule
                )
            {
                numel[idx] = Some(n);
                dtype[idx] = Some(dt);
            }
        }
        if !any_shape {
            return None;
        }

        // Exact (unbucketed) peak: the same walk as
        // `fx_passes::estimator::peak_activation_bytes` — every step with
        // a known shape counts, deps freed at their last use, values
        // nobody reads never freed. `deps` is deduplicated exactly like
        // `Node::input_nodes`, so the two walks agree step for step.
        let mut last_use: Vec<Option<usize>> = vec![None; steps.len()];
        for (idx, step) in steps.iter().enumerate() {
            for &d in &step.deps {
                last_use[d] = Some(idx);
            }
        }
        let mut live = 0u64;
        let mut exact_peak_bytes = 0u64;
        for (idx, step) in steps.iter().enumerate() {
            live += exact_bytes[idx];
            exact_peak_bytes = exact_peak_bytes.max(live);
            for &d in &step.deps {
                if last_use[d] == Some(idx) {
                    live = live.saturating_sub(exact_bytes[d]);
                }
            }
        }

        // Buffer assignment: a free-list of retired buffers per
        // (dtype, power-of-two bucket), mirroring the runtime pool's
        // typed buckets — reuse never crosses element types. An
        // in-place step inherits its dying input's buffer outright
        // (same dtype by construction: scalar unaries preserve f32,
        // `quantized::relu` preserves int8, but check anyway).
        let mut buffer: Vec<Option<usize>> = vec![None; steps.len()];
        let mut buffer_capacity: Vec<usize> = Vec::new();
        let mut buffer_dtype: Vec<DType> = Vec::new();
        let mut free: HashMap<(DType, usize), Vec<usize>> = HashMap::new();
        let mut transferred = vec![false; steps.len()];
        let mut planned_reuses = 0usize;
        for idx in 0..steps.len() {
            if let Some(n) = numel[idx] {
                let dt = dtype[idx].expect("dtype set wherever numel is");
                let inplace_src = if inplace_unary[idx] {
                    match &steps[idx].args[0] {
                        PlanArg::Slot(d) => buffer[*d]
                            .filter(|&b| buffer_capacity[b] >= n && buffer_dtype[b] == dt)
                            .map(|b| (*d, b)),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some((d, b)) = inplace_src {
                    buffer[idx] = Some(b);
                    transferred[d] = true;
                    planned_reuses += 1;
                } else {
                    let cap = n.next_power_of_two();
                    if let Some(b) = free.get_mut(&(dt, cap)).and_then(Vec::pop) {
                        buffer[idx] = Some(b);
                        planned_reuses += 1;
                    } else {
                        buffer[idx] = Some(buffer_capacity.len());
                        buffer_capacity.push(cap);
                        buffer_dtype.push(dt);
                    }
                }
            }
            // Retire the buffers of everything that dies here (an
            // in-place-consumed input already moved to this step).
            for &r in &release_after[idx] {
                if !transferred[r] {
                    if let Some(b) = buffer[r] {
                        free.entry((buffer_dtype[b], buffer_capacity[b]))
                            .or_default()
                            .push(b);
                    }
                }
            }
        }

        let pool_peak_bytes = buffer_capacity
            .iter()
            .zip(&buffer_dtype)
            .map(|(&c, dt)| c as u64 * dt.size_bytes() as u64)
            .sum::<u64>();
        Some(MemPlan {
            numel,
            dtype,
            buffer,
            buffer_capacity,
            buffer_dtype,
            planned_reuses,
            exact_peak_bytes,
            pool_peak_bytes,
        })
    }
}

fn compile_arg(arg: &Arg, slot_of: &HashMap<NodeId, usize>, user: &str) -> Result<PlanArg> {
    Ok(match arg {
        Arg::Node(id) => PlanArg::Slot(*slot_of.get(id).ok_or_else(|| {
            Error::Graph(format!(
                "cannot compile plan: node `{user}` references node %{} before its definition \
                 (or it was erased)",
                id.index()
            ))
        })?),
        Arg::Int(v) => PlanArg::Const(Value::Int(*v)),
        Arg::Float(v) => PlanArg::Const(Value::Float(*v)),
        Arg::Bool(v) => PlanArg::Const(Value::Bool(*v)),
        Arg::Str(v) => PlanArg::Const(Value::Str(v.clone())),
        Arg::None => PlanArg::Const(Value::None),
        Arg::List(items) => PlanArg::List(
            items
                .iter()
                .map(|a| compile_arg(a, slot_of, user))
                .collect::<Result<_>>()?,
        ),
        Arg::Tuple(items) => PlanArg::Tuple(
            items
                .iter()
                .map(|a| compile_arg(a, slot_of, user))
                .collect::<Result<_>>()?,
        ),
    })
}

fn collect_slots(arg: &PlanArg, out: &mut Vec<usize>) {
    match arg {
        PlanArg::Slot(s) => out.push(*s),
        PlanArg::List(items) | PlanArg::Tuple(items) => {
            for a in items {
                collect_slots(a, out);
            }
        }
        PlanArg::Const(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: x -> (relu, neg) -> add -> output.
    fn diamond() -> Graph {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let r = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let n = g.call_function("neg", vec![Arg::Node(x)], vec![]);
        let a = g.call_function("add", vec![Arg::Node(r), Arg::Node(n)], vec![]);
        g.output(Arg::Node(a));
        g
    }

    #[test]
    fn wavefronts_expose_parallel_branches() {
        let plan = ExecPlan::compile(&diamond()).unwrap();
        assert_eq!(plan.levels.len(), 4); // x | relu, neg | add | output
        assert_eq!(plan.levels[1].len(), 2);
        let depths: Vec<usize> = plan.levels[1]
            .iter()
            .map(|&i| plan.steps[i].level)
            .collect();
        assert_eq!(depths, [1, 1]);
        assert_eq!(plan.n_inputs, 1);
        assert_eq!(plan.output_step, Some(4));
    }

    #[test]
    fn liveness_releases_each_slot_exactly_once() {
        let plan = ExecPlan::compile(&diamond()).unwrap();
        let mut released: Vec<usize> = plan.release_after.iter().flatten().copied().collect();
        released.sort_unstable();
        // Every slot except the output's is released exactly once.
        assert_eq!(released, vec![0, 1, 2, 3]);
        // x (slot 0) must die at `neg` (slot 2), its last reader.
        assert!(plan.release_after[2].contains(&0));
        // add (slot 3) is read by output: it is released at the output
        // step, after its value has been moved out.
        assert!(plan.release_after[4].contains(&3));
    }

    #[test]
    fn constants_are_preresolved() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function(
            "add",
            vec![Arg::Node(x), Arg::Float(1.5)],
            vec![("alpha".to_string(), Arg::Int(2))],
        );
        g.output(Arg::Node(a));
        let plan = ExecPlan::compile(&g).unwrap();
        match &plan.steps[1].args[1] {
            PlanArg::Const(Value::Float(f)) => assert_eq!(*f, 1.5),
            other => panic!("expected pre-resolved const, got {other:?}"),
        }
        match &plan.steps[1].kwargs[0].1 {
            PlanArg::Const(Value::Int(2)) => {}
            other => panic!("expected pre-resolved kwarg, got {other:?}"),
        }
    }

    #[test]
    fn use_before_def_fails_compilation() {
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let a = g.call_function("relu", vec![], vec![]);
        let b = g.call_function("neg", vec![Arg::Node(x)], vec![]);
        g.set_args(a, vec![Arg::Node(b)]).unwrap();
        assert!(ExecPlan::compile(&g).is_err());
    }

    #[test]
    fn inplace_marks_only_last_reader_unaries() {
        let plan = ExecPlan::compile(&diamond()).unwrap();
        // relu reads x but is not x's last reader (neg is): not in-place.
        assert!(!plan.inplace_unary[1]);
        // neg is x's last reader and a parameterless unary: in-place.
        assert!(plan.inplace_unary[2]);
        // add is binary; placeholder/output are not call_functions.
        assert!(!plan.inplace_unary[0]);
        assert!(!plan.inplace_unary[3]);
        assert!(!plan.inplace_unary[4]);
    }

    #[test]
    fn mem_plan_absent_without_shapes() {
        let plan = ExecPlan::compile(&diamond()).unwrap();
        assert!(plan.mem.is_none());
    }

    #[test]
    fn mem_plan_reuses_buffers_and_tracks_peaks() {
        use crate::node::Meta;
        // Chain x -> relu -> neg -> output, all [4] f32 (16 bytes).
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let r = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let n = g.call_function("neg", vec![Arg::Node(r)], vec![]);
        g.output(Arg::Node(n));
        for id in [x, r, n] {
            g.node_meta_mut(id)
                .insert("shape".to_string(), Meta::Shape(vec![4]));
        }
        let plan = ExecPlan::compile(&g).unwrap();
        let mem = plan.mem.as_ref().expect("shapes present => plan present");
        // Placeholders are not pool-eligible; both kernels are.
        assert_eq!(mem.numel, vec![None, Some(4), Some(4), None]);
        // neg runs in place on relu's dying output: same buffer id.
        assert!(plan.inplace_unary[2]);
        assert_eq!(mem.buffer[1], mem.buffer[2]);
        assert_eq!(mem.buffer_capacity, vec![4]);
        assert_eq!(mem.planned_reuses, 1);
        // Peak: x (16 B) + relu's output (16 B) live together.
        assert_eq!(mem.exact_peak_bytes, 32);
        assert_eq!(mem.pool_peak_bytes, 16);
    }

    #[test]
    fn mem_plan_bucket_reuse_across_disjoint_lifetimes() {
        use crate::node::Meta;
        // x -> a = relu(x); b = neg(x); c = add(a, b): `c` can reuse a
        // retired buffer only if one died before it — here a and b both
        // die AT c, so c needs a fresh buffer (3 total), and a diamond
        // has no in-place step for same-size reuse. Then d = relu(c)
        // runs in place on c.
        let mut g = diamond();
        let add = g.find_by_name("add").unwrap().id();
        let out = g.output_node().unwrap().id();
        let d = {
            let mut ins = g.inserting_before(out);
            ins.call_function("relu", vec![Arg::Node(add)], vec![])
        };
        g.set_args(out, vec![Arg::Node(d)]).unwrap();
        for id in g.node_ids() {
            g.node_meta_mut(id)
                .insert("shape".to_string(), Meta::Shape(vec![8]));
        }
        let plan = ExecPlan::compile(&g).unwrap();
        let mem = plan.mem.as_ref().unwrap();
        // relu, neg, add need three distinct buffers; the final relu
        // inherits add's in place.
        assert_eq!(mem.buffer_capacity.len(), 3);
        assert_eq!(mem.buffer[4], mem.buffer[3]);
        assert_eq!(mem.planned_reuses, 1);
    }

    #[test]
    fn mem_plan_types_quantized_buffers() {
        use crate::node::Meta;
        // x -> qrelu -> qrelu -> output, all [8] int8: the planner must
        // type the buffers (8 bytes, not 32), mark the int8 relu chain
        // in-place, and never hand an int8 step an f32 buffer.
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let r1 = g.call_function("quantized::relu", vec![Arg::Node(x)], vec![]);
        let r2 = g.call_function("quantized::relu", vec![Arg::Node(r1)], vec![]);
        g.output(Arg::Node(r2));
        for id in [x, r1, r2] {
            g.node_meta_mut(id)
                .insert("shape".to_string(), Meta::Shape(vec![8]));
            g.node_meta_mut(id)
                .insert("dtype".to_string(), Meta::DType(fx_tensor::DType::QI8));
        }
        let plan = ExecPlan::compile(&g).unwrap();
        let mem = plan.mem.as_ref().unwrap();
        assert_eq!(mem.numel[1], Some(8));
        assert_eq!(mem.dtype[1], Some(fx_tensor::DType::QI8));
        // The second relu is the first's last reader: in-place, shared id.
        assert!(plan.inplace_unary[2]);
        assert_eq!(mem.buffer[1], mem.buffer[2]);
        assert_eq!(mem.buffer_dtype, vec![fx_tensor::DType::QI8]);
        assert_eq!(mem.planned_reuses, 1);
        // 8 int8 elements bucket to 8 *bytes* — dtype-aware accounting.
        assert_eq!(mem.pool_peak_bytes, 8);
    }

    #[test]
    fn mem_plan_never_reuses_buffers_across_dtypes() {
        use crate::node::Meta;
        // a = relu(x) [f32] dies at b = add(a, a), retiring its buffer;
        // q = quantized::relu(y) [int8, same element count] runs next
        // and must NOT inherit a's retired f32 buffer.
        let mut g = Graph::new();
        let x = g.placeholder("x");
        let y = g.placeholder("y");
        let a = g.call_function("relu", vec![Arg::Node(x)], vec![]);
        let b = g.call_function("add", vec![Arg::Node(a), Arg::Node(a)], vec![]);
        let q = g.call_function("quantized::relu", vec![Arg::Node(y)], vec![]);
        g.output(Arg::Tuple(vec![Arg::Node(b), Arg::Node(q)]));
        for id in [x, y, a, b, q] {
            g.node_meta_mut(id)
                .insert("shape".to_string(), Meta::Shape(vec![16]));
        }
        g.node_meta_mut(q)
            .insert("dtype".to_string(), Meta::DType(fx_tensor::DType::QI8));
        g.node_meta_mut(y)
            .insert("dtype".to_string(), Meta::DType(fx_tensor::DType::QI8));
        let plan = ExecPlan::compile(&g).unwrap();
        let mem = plan.mem.as_ref().unwrap();
        let (ba, bq) = (mem.buffer[2].unwrap(), mem.buffer[4].unwrap());
        assert_ne!(ba, bq, "int8 step must not reuse an f32 buffer");
        assert_eq!(mem.buffer_dtype[ba], fx_tensor::DType::F32);
        assert_eq!(mem.buffer_dtype[bq], fx_tensor::DType::QI8);
    }

    #[test]
    fn plan_records_graph_version() {
        let mut g = diamond();
        let v = g.version();
        let plan = ExecPlan::compile(&g).unwrap();
        assert_eq!(plan.graph_version, v);
        let out = g.output_node().unwrap().id();
        g.set_target(out, "output").unwrap();
        assert_ne!(ExecPlan::compile(&g).unwrap().graph_version, v);
    }
}
