//! # fx — program capture and transformation for deep learning in Rust
//!
//! A from-scratch reproduction of **torch.fx** (Reed et al., MLSys 2022):
//! symbolic tracing of neural-network modules into a 6-opcode DAG IR,
//! Python-style code generation, and a library of graph transforms —
//! quantization, conv–BN fusion, shape propagation, FLOPs estimation,
//! graph splitting and backend lowering — together with the eager tensor
//! and module substrate everything runs on.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`tensor`] — eager tensor kernels ([`fx_tensor`])
//! * [`core`] — tracing, IR, `GraphModule`, plan-cached executor, codegen ([`fx_core`])
//! * [`nn`] — layer library ([`fx_nn`])
//! * [`models`] — the paper's evaluation models ([`fx_models`])
//! * [`quant`] — FX graph-mode post-training quantization ([`fx_quant`])
//! * [`passes`] — analyses and transforms ([`fx_passes`])
//! * [`backend`] — TensorRT-like ahead-of-time engine ([`fx_backend`])
//! * [`jit`] — TorchScript-like comparator IR ([`fx_jit`])
//! * [`serve`] — dynamic-batching inference server ([`fx_serve`])
//!
//! ## Quickstart
//!
//! ```
//! use fx::prelude::*;
//!
//! // The paper's Figure 1: capture `relu(x).neg()`.
//! let traced = symbolic_trace_fn(1, |xs| {
//!     let x = &xs[0];
//!     Ok(func::relu(x)?.method("neg", &[])?)
//! })
//! .unwrap();
//! for node in traced.graph().nodes() {
//!     println!("{node}");
//! }
//! println!("{}", traced.code());
//! ```

#![warn(missing_docs)]

pub use fx_backend as backend;
pub use fx_core as core;
pub use fx_jit as jit;
pub use fx_models as models;
pub use fx_nn as nn;
pub use fx_passes as passes;
pub use fx_quant as quant;
pub use fx_serve as serve;
pub use fx_tensor as tensor;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use fx_core::{
        func, symbolic_trace, symbolic_trace_fn, ExecConfig, ExecPlan,
        ExecutionBackend, Executor, ExecutorBackend, Graph, GraphModule, Module, ModuleExt,
        Node, Opcode, PreparedModel, RunProfile, Tracer, Value,
    };
    pub use fx_tensor::{DType, Tensor};
}
