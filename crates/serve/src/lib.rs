//! # fx-serve — multi-tenant dynamic-batching inference serving over fx graphs
//!
//! Production inference rarely sees requests in convenient batches: N
//! clients each hold one sample, but the hardware only pays off when
//! samples run together — and a real fleet serves many *models*, not
//! one. `fx_serve` closes both gaps for any batch-polymorphic
//! [`GraphModule`](fx_core::GraphModule):
//!
//! 1. Clients submit single requests through a cloneable [`Handle`];
//!    submissions land in a **per-model bounded queue** (past its depth
//!    they are rejected immediately with [`Error::QueueFull`] naming
//!    the model — typed backpressure, never a blocking push).
//! 2. A **batcher thread per model** coalesces queued requests — up to
//!    `max_batch_size` stacked rows, or whatever arrived within the
//!    effective batch delay (fixed, or tuned by the **adaptive
//!    batching** control loop to hold a p99 budget).
//! 3. A **shared worker pool** pulls batches **weighted-fair across
//!    models** (time-charged deficit round-robin), stacks each batch
//!    along dim 0, runs it *once* on the one
//!    [`Executor`](fx_core::Executor), splits the output rows back per
//!    request, and answers each client on its own channel. A model is
//!    served as registered: to serve a fused graph, run
//!    `fx_backend::fuse` on it first.
//!
//! The [`Registry`] manages N models: register/unregister at runtime,
//! and **hot swap** a model's weights with [`Registry::swap`] — an
//! atomic version flip plus in-flight drain, so reload is
//! zero-downtime and no batch ever mixes versions. The single-model
//! [`Server`] remains as a thin wrapper for the common case.
//!
//! Because every kernel in `fx-tensor` computes each output row of a
//! batch independently (and dim-0 stacking of row-major tensors is pure
//! buffer concatenation), the rows a client gets back are **bit
//! identical** to running its request alone on whichever model version
//! served it — batching and multi-tenancy are invisible except in
//! throughput. Models that bake the batch extent into their graph
//! (hard-coded reshapes, full flattens) are rejected at registration by
//! [`fx_passes::batch_polymorphic`].
//!
//! ```no_run
//! use fx_serve::{ModelConfig, Registry};
//! # fn resnet() -> fx_core::GraphModule { unimplemented!() }
//! # fn recommender() -> fx_core::GraphModule { unimplemented!() }
//! let registry = Registry::builder().workers(2).build().unwrap();
//! let vision = registry
//!     .register_with(
//!         "resnet",
//!         resnet(),
//!         &[vec![1, 3, 32, 32]],
//!         ModelConfig::new().weight(2).p99_budget(std::time::Duration::from_millis(50)),
//!     )
//!     .unwrap();
//! let ranker = registry.register("recommender", recommender(), &[vec![1, 64]]).unwrap();
//! let logits = vision.infer(vec![fx_tensor::Tensor::zeros(&[1, 3, 32, 32])]).unwrap();
//! registry.swap("resnet", resnet()).unwrap(); // zero-downtime reload
//! # let _ = (ranker, logits);
//! println!("{}", registry.shutdown()); // drains everything, per-model + aggregate stats
//! ```

#![warn(missing_docs)]

mod error;
mod registry;
mod scheduler;
mod server;
mod stats;
mod swap;

pub use error::{Error, Result};
pub use registry::{ModelConfig, Registry, RegistryBuilder};
pub use server::{Handle, Server, ServerBuilder};
pub use stats::{ModelStats, RegistrySnapshot, ServeStats};

// Re-exported so callers can configure runs without naming fx_core.
pub use fx_core::ExecConfig;

// The whole point of the crate is cross-thread use; keep that a
// compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Handle>();
    assert_send_sync::<Server>();
    assert_send_sync::<Registry>();
    assert_send_sync::<ModelConfig>();
    assert_send_sync::<Error>();
    assert_send_sync::<ServeStats>();
    assert_send_sync::<RegistrySnapshot>();
};
