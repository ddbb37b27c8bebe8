//! Eager tensor kernels.
//!
//! These free functions are the "aten" layer of the stack: the op
//! dispatcher in `fx-core` registers them as the eager implementations of
//! `call_function` / `call_method` targets, and the interpreter, the
//! quantization pass, the fusion pass and the backend engine all bottom
//! out here.

mod batch;
pub(crate) mod conv;
mod elementwise;
pub(crate) mod matmul;
mod norm;
mod reduce;
mod shape_ops;
pub(crate) mod simd;

pub use batch::{split_batch, stack_batch};
pub use conv::{adaptive_avg_pool2d, avg_pool2d, conv2d, conv2d_act, max_pool2d};
pub use simd::{int8_element, simd_available, simd_enabled, simd_level};
pub use elementwise::{
    abs, add, clamp, div, exp, gelu, hardtanh, leaky_relu, log, maximum, minimum, mul, neg, relu,
    rsqrt, selu, sigmoid, sqrt, sub, tanh, unary_scalar,
};
pub use matmul::{linear, linear_act, matmul};
pub use norm::{batch_norm, channel_affine, layer_norm, log_softmax, softmax};
pub use reduce::{argmax, max_dim, mean_all, mean_dim, sum_all, sum_dim};
pub use shape_ops::{
    cat, chunk, embedding, flatten, permute, squeeze, transpose, unsqueeze,
};
