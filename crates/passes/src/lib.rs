//! # fx-passes — analyses and transforms over fx graphs
//!
//! The transform library the torch.fx paper's case studies are built
//! from:
//!
//! * [`fuse`] — conv–BN fusion (§6.2.2)
//! * [`sym_shape`] — one shape rule per operator over symbolic
//!   dimensions, and the one walk that applies them (§5.5, §6.3)
//! * [`shape_prop`](mod@shape_prop) — observed shapes, and that walk over constants
//!   (§6.3)
//! * [`estimator`] — FLOPs / bytes / roofline-runtime / peak-memory
//!   estimation on simulated devices (§6.3)
//! * [`drawer`] — Graphviz rendering (§6.3)
//! * [`splitter`] — supported/unsupported partitioning (§6.4, fx2trt's
//!   auto-split)
//! * [`scheduler`] — two-stream overlap scheduling (§6.2.3)
//! * [`cse`] / [`constfold`] — classic cleanups, trivially sound on the
//!   mutation-free IR (§5.5–§5.6)
//! * [`batch_check`] — static batch-polymorphism admission check for
//!   the `fx_serve` dynamic batcher

#![warn(missing_docs)]

pub mod batch_check;
pub mod constfold;
pub mod cse;
pub mod drawer;
pub mod estimator;
pub mod fuse;
pub mod scheduler;
pub mod shape_prop;
pub mod splitter;
pub mod sym_shape;

pub use batch_check::batch_polymorphic;
pub use constfold::fold_constants;
pub use cse::eliminate_common_subexpressions;
pub use drawer::to_dot;
pub use estimator::{
    cross_check_peak, estimate, node_cost, peak_activation_bytes, DeviceSpec, NodeCost,
    PeakCrossCheck, Report,
};
pub use fuse::{fold_conv_bn, fuse_conv_bn};
pub use scheduler::{schedule_overlap, Schedule, ScheduledOp, Stream};
pub use shape_prop::{infer_shapes, shape_prop};
pub use splitter::{split_by, Partition, SplitResult};
pub use sym_shape::{display_sym_shape, infer_sym_shapes, SymDim, SymShape};

/// The function form of the leaf a `call_module` node targets: its
/// `forward`, traced. Leaf-ness is tracer policy, not semantics (§5.2),
/// and every library leaf is written through the dispatcher, so the
/// analyses read a leaf the way they read any graph instead of keeping
/// per-layer-type cases. A leaf whose `forward` needs concrete data (a
/// recurrence over a runtime length) is reported by type.
pub(crate) fn leaf_function_form(
    gm: &fx_core::GraphModule,
    node: &fx_core::Node,
) -> fx_core::Result<fx_core::GraphModule> {
    let module = gm
        .get_module(node.target())
        .ok_or_else(|| fx_core::Error::Module(format!("missing submodule `{}`", node.target())))?;
    fx_core::symbolic_trace(module.as_ref()).map_err(|e| {
        fx_core::Error::Graph(format!(
            "no function form for module type `{}` at `{}`: its forward does not trace ({e})",
            module.type_name(),
            node.name()
        ))
    })
}
