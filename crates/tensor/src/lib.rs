//! # fx-tensor
//!
//! The eager tensor substrate underneath the `fx` program-capture stack.
//!
//! This crate provides a small but real n-dimensional array library:
//! contiguous row-major tensors over `f32`, `i64`, `bool` and quantized
//! `i8` storage, NumPy-style broadcasting, one blocked (optionally
//! threaded) GEMM driver over a table of register tiles — explicit AVX2 /
//! AVX-512 microkernels behind runtime feature detection, and portable
//! ones, which `FX_SIMD=0` selects (see [`simd_level`]) — implicit-GEMM
//! convolution, pooling,
//! normalization, activations,
//! reductions, shape manipulation and an int8 quantized kernel set
//! (quantize/dequantize, quantized linear/conv with i32 accumulation and
//! requantization) mirroring the FBGEMM operations used in the torch.fx
//! paper's quantization evaluation.
//!
//! Everything above this crate (tracing, graphs, modules, passes) treats
//! these functions as the "dispatched" eager kernels.
//!
//! ## Example
//!
//! ```
//! use fx_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::full(&[2, 2], 10.0);
//! let c = fx_tensor::ops::add(&a, &b).unwrap();
//! assert_eq!(c.as_f32().unwrap(), &[11.0, 12.0, 13.0, 14.0]);
//! ```

#![warn(missing_docs)]

pub mod dtype;
pub mod error;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod threading;

pub use dtype::DType;
pub use error::{Error, Result};
pub use ops::{simd_available, simd_enabled, simd_level};
pub use quant::QScheme;
pub use tensor::Tensor;
pub use threading::{num_threads, set_num_threads};
