//! # fx-core — program capture and transformation (the torch.fx core)
//!
//! A Rust reproduction of the torch.fx pipeline (Reed et al., MLSys
//! 2022): **symbolic tracing → 6-opcode IR → transformation → code
//! generation**, built on four pieces:
//!
//! 1. [`Value`] / [`Proxy`] — the runtime duck type. A single dispatcher
//!    ([`dispatch`]) routes every tensor op either to an eager kernel or,
//!    when proxies flow through an active trace, to the graph recorder.
//! 2. [`Graph`] / [`Node`] — the DAG IR with exactly six opcodes
//!    ([`Opcode`]), immediate-value arguments, maintained use–def
//!    chains, insertion points, DCE and a linter.
//! 3. [`Module`] / [`GraphModule`] — the stateful module hierarchy
//!    paired with the functional graph, so transforms mutate code and
//!    parameters together (paper §5.6).
//! 4. [`Executor`] / [`codegen`] — execution re-entering the host via a
//!    plan-cached executor that runs one node at a time ([`ExecPlan`]), plus
//!    Python-style source generation for inspection.
//!
//! ## The paper's Figure 1, in Rust
//!
//! ```
//! use fx_core::{symbolic_trace_fn, func};
//!
//! let traced = symbolic_trace_fn(1, |xs| func::relu(&xs[0])?.neg()).unwrap();
//! let ir = traced.graph().to_string();
//! assert_eq!(ir, "\
//! x = placeholder target=x args=()
//! relu = call_function target=relu args=(x,)
//! neg = call_method target=neg args=(relu,)
//! output = output target=output args=(neg,)
//! ");
//! assert_eq!(traced.code(), "\
//! def forward(self, x):
//!     relu = torch.relu(x);  x = None
//!     neg = relu.neg();  relu = None
//!     return neg
//! ");
//! ```

#![warn(missing_docs)]

pub mod arg;
pub mod codegen;
pub mod dispatch;
pub mod error;
pub mod exec;
pub mod exec_plan;
pub mod executor;
pub mod func;
pub mod graph;
pub mod graph_module;
pub mod module;
pub mod node;
mod ops_registry;
pub mod parser;
pub mod rewrite;
pub mod trace;
pub mod validate;
pub mod value;

pub use arg::Arg;
pub use error::{Error, Result};
pub use exec::ExecConfig;
pub use exec_plan::{ExecPlan, MemPlan, PlanArg, Step};
pub use executor::{Executor, InterpHook, NodeTime, RunProfile};
pub use graph::{Graph, InsertGuard};
pub use graph_module::GraphModule;
pub use module::{
    get_submodule, join_path, module_ptr, module_tree, named_modules, named_parameters,
    num_parameters, ArcModule, Module, ModuleExt,
};
pub use node::{Meta, Node, NodeId, Opcode};
pub use parser::parse_graph;
pub use rewrite::{replace_pattern, Match};
pub use trace::{
    symbolic_trace, symbolic_trace_concrete, symbolic_trace_fn, symbolic_trace_with,
    DefaultTracer, Tracer,
};
pub use validate::GraphChecker;
pub use value::{Proxy, Value};

// Compile-time audit that shared execution state crosses threads: the
// serving layer (`fx_serve`) hands one `Arc<GraphModule>` to a pool of
// batch workers, each of which fetches the same cached `Arc<ExecPlan>`
// and runs it concurrently. Anything interior-mutable in these types
// must therefore be a `Mutex`/atomic, never `Cell`/`RefCell`/`Rc` —
// this block turns a regression into a compile error at the source
// rather than a trait-bound error in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphModule>();
    assert_send_sync::<ExecPlan>();
    assert_send_sync::<Graph>();
    assert_send_sync::<Value>();
    assert_send_sync::<Error>();
    assert_send_sync::<ArcModule>();
    assert_send_sync::<fx_tensor::Tensor>();
    assert_send_sync::<ExecConfig>();
};
