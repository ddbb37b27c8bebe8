//! # fx-backend — a TensorRT-like ahead-of-time inference engine
//!
//! The paper's §6.4 case study rebuilt in Rust: an optimizing backend
//! that consumes captured fx graphs and produces fused [`Engine`]s, plus
//! the fx2trt-style [`lower`] entry point that auto-splits models around
//! the operators the backend does not support.
//!
//! Everything the backend does is a graph→graph pass ([`passes`]), and
//! the fused graph runs on the one [`Executor`](fx_core::Executor):
//!
//! ```text
//! trace → passes (conv–BN folding, epilogue fusion, unary chains,
//!                 BN → channel affine, identity elision, DCE)
//!       → ExecPlan → Executor
//! ```
//!
//! An [`Engine`] is the fused `GraphModule` plus its warmed plan. To
//! serve a fused graph, [`fuse`] it and hand the result to
//! `fx_serve::Registry::register`: with `CompileOptions { fuse_conv_bn:
//! false }` only bit-preserving passes run, so it answers bit-identically
//! to the un-fused graph.
//!
//! ```
//! use fx_backend::lower;
//! use fx_core::{symbolic_trace, Value};
//! use fx_models::resnet_tiny;
//! use fx_tensor::Tensor;
//! use fx_tensor::rng::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
//! let (lowered, report) = lower(&gm).unwrap();
//! assert_eq!(report.fallback_partitions, 0);
//! let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
//! let y = lowered.run(&[x]).unwrap();
//! assert_eq!(y.as_tensor().unwrap().shape(), &[1, 10]);
//! ```

#![warn(missing_docs)]

mod compile;
mod engine;
mod lower;
pub mod passes;

pub use compile::{compile, compile_with, fuse, is_supported, CompileOptions};
pub use engine::Engine;
pub use lower::{lower, EngineModule, LowerReport};
