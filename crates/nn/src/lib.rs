//! # fx-nn — the layer library
//!
//! Standard neural-network modules implementing the
//! [`Module`](fx_core::Module) protocol from `fx-core`: `Linear`,
//! `Conv2d`, `BatchNorm2d`, activations, pooling, containers and
//! friends.
//!
//! All layers are **built-in leaves** (`is_builtin_leaf() == true`
//! except containers): the default tracer records them as opaque
//! `call_module` nodes, "since this creates a trace of standard,
//! understandable primitives" (paper §5.2). Their forwards fetch
//! parameters through [`ModuleExt::attr`](fx_core::ModuleExt) and route
//! math through [`fx_core::func`], so a custom tracer that marks them
//! non-leaf traces straight through to `get_attr` + `call_function`
//! nodes — the configurable level-of-detail the paper describes.
//!
//! ```
//! use fx_nn::{Linear, ReLU, Sequential};
//! use fx_core::symbolic_trace;
//! use fx_tensor::rng::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Sequential::new(vec![
//!     std::sync::Arc::new(Linear::new(4, 8, &mut rng)),
//!     std::sync::Arc::new(ReLU),
//!     std::sync::Arc::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let traced = symbolic_trace(&model).unwrap();
//! // Sequential is traced *through*; Linear/ReLU become call_module nodes.
//! assert_eq!(traced.graph().len(), 5); // x, 0, 1, 2, output
//! ```

#![warn(missing_docs)]

mod activation;
mod container;
mod conv;
mod fused;
pub mod init;
mod linear;
mod misc;
mod norm;
mod pool;

pub use activation::{LeakyReLU, ReLU, ReLU6, Sigmoid, Tanh, GELU, SELU};
pub use container::{Identity, Sequential};
pub use conv::Conv2d;
pub use fused::{ChannelAffine, FusedConv2d, FusedLinear};
pub use linear::Linear;
pub use misc::{Dropout, Embedding, Flatten};
pub use norm::{BatchNorm2d, LayerNorm};
pub use pool::{AdaptiveAvgPool2d, AvgPool2d, MaxPool2d};
