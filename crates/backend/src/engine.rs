//! The compiled [`Engine`]: a fused [`GraphModule`] plus its warmed
//! [`ExecPlan`].
//!
//! What TensorRT buys over per-op eager execution (paper §6.4) is
//! ahead-of-time fusion; everything else an inference runtime needs —
//! liveness, buffer reuse, in-place rewrites, threads, profiling, panic
//! containment — the engine gets from the one [`Executor`], because an
//! engine run *is* an executor run of the fused graph.

use fx_core::{Error, ExecPlan, Executor, GraphModule, Opcode, Result, RunProfile, Value};
use fx_tensor::Tensor;
use std::sync::Arc;

/// A compiled, self-contained inference program.
#[derive(Debug, Clone)]
pub struct Engine {
    gm: GraphModule,
    plan: Arc<ExecPlan>,
}

impl Engine {
    /// Wrap an already-fused graph, compiling (and caching on `gm`) its
    /// execution plan so the first run does not pay for it.
    pub(crate) fn new(gm: GraphModule) -> Result<Engine> {
        let (plan, ..) = gm.exec_plan()?;
        Ok(Engine { gm, plan })
    }

    /// The fused graph the engine executes — printable, re-traceable and
    /// transformable like any other [`GraphModule`].
    pub fn graph_module(&self) -> &GraphModule {
        &self.gm
    }

    /// Number of fused instructions — live `call_*` and `get_attr` nodes
    /// (compare against the source graph's node count to see fusion at
    /// work).
    pub fn instruction_count(&self) -> usize {
        let io = |op| matches!(op, Opcode::Placeholder | Opcode::Output);
        self.gm.graph().nodes().filter(|n| !io(n.op())).count()
    }

    /// Distinct buffers the memory planner assigned across the fused
    /// graph (`MemPlan::buffer_capacity`); `0` when the source graph
    /// carried no shape metadata to plan with.
    pub fn register_count(&self) -> usize {
        self.plan
            .mem
            .as_ref()
            .map_or(0, |m| m.buffer_capacity.len())
    }

    /// Engine name.
    pub fn name(&self) -> &str {
        "engine"
    }

    /// One line per instruction in the graph's printed form; module
    /// calls also show the (fused) layer behind the target.
    pub fn disassemble(&self) -> String {
        let graph = self.gm.graph();
        let mut out = String::new();
        for (line, node) in graph.to_string().lines().zip(graph.nodes()) {
            if matches!(node.op(), Opcode::Placeholder | Opcode::Output) {
                continue; // not instructions
            }
            out.push_str(line);
            if let Some(m) = self.gm.get_module(node.target()) {
                out.push_str(&format!("  # {}({})", m.type_name(), m.extra_repr()));
            }
            out.push('\n');
        }
        out
    }

    fn values(&self, inputs: &[Tensor]) -> Result<Vec<Value>> {
        if inputs.len() != self.plan.n_inputs {
            return Err(Error::Module(format!(
                "engine expects {} inputs, got {}",
                self.plan.n_inputs,
                inputs.len()
            )));
        }
        Ok(inputs.iter().cloned().map(Value::Tensor).collect())
    }

    /// Execute on concrete inputs: one default-configured [`Executor`]
    /// run of the fused graph.
    pub fn run(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let out = Executor::new(&self.gm).run(&self.values(inputs)?)?;
        Tensor::try_from(&out)
    }

    /// Execute and return the executor's [`RunProfile`]: one `NodeTime`
    /// per fused instruction, plan-cache counters, peak live bytes.
    pub fn run_profiled(&self, inputs: &[Tensor]) -> Result<(Tensor, RunProfile)> {
        let (out, profile) = Executor::new(&self.gm).run_profiled(&self.values(inputs)?)?;
        Ok((Tensor::try_from(&out)?, profile))
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;
    use fx_core::{func, symbolic_trace_fn};
    use fx_tensor::Tensor;

    #[test]
    fn run_profiled_reports_per_instruction_times() {
        // y = relu(x + 1) * 2 fuses into a single chain instruction.
        let gm = symbolic_trace_fn(1, |xs| {
            let a = func::add(&xs[0], &fx_core::Value::Float(1.0))?;
            func::mul(&func::relu(&a)?, &fx_core::Value::Float(2.0))
        })
        .unwrap();
        let engine = compile(&gm).unwrap();
        assert_eq!(engine.instruction_count(), 1, "{}", engine.disassemble());
        assert!(engine.disassemble().contains("unary_chain"));
        let (y, profile) = engine
            .run_profiled(&[Tensor::from_vec(vec![-3.0, 0.5], &[2])])
            .unwrap();
        assert_eq!(y.as_f32().unwrap(), &[0.0, 3.0]);
        let calls: Vec<_> = profile
            .node_times
            .iter()
            .filter(|t| t.op == fx_core::Opcode::CallFunction)
            .collect();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].target, "unary_chain");
        assert!(profile.total_seconds > 0.0);
        assert!(profile.plan_cache_hit, "compile warmed the plan");
    }

    #[test]
    fn wrong_input_arity_errors() {
        let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
        let engine = compile(&gm).unwrap();
        let x = Tensor::from_vec(vec![1.0], &[1]);
        assert!(engine.run(&[]).is_err());
        assert!(engine.run(&[x.clone(), x]).is_err());
    }
}
